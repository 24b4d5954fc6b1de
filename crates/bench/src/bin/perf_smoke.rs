//! Performance smoke gate for the batched flat-forest inference engine.
//!
//! Measures, at equal `ForestParams`:
//!
//! * the seed's scalar path (per-call feature allocation + nested tree
//!   traversal) vs the batched flat path, in candidates priced per
//!   second — once in the governor's steady state (repeated sweeps over
//!   one snapshot, where the specialization and value memos carry the
//!   load) and once with a fresh snapshot per sweep (re-specialize and
//!   walk everything, the raw engine number);
//! * the RF-backed hill climb, in ns per evaluated candidate;
//! * `RandomForest` fit wall-time, single-threaded vs auto-parallel.
//!
//! The forest fits run under a live [`gpm_telemetry`] registry, and the
//! `rf.fit` span totals are cross-checked against the bench's own
//! wall-clock timers — the profiler must count every fit and attribute
//! (nearly) all of its wall time, or the phase tables the `reproduce`
//! pipeline emits are lying.
//!
//! Emits `results/BENCH_perf.json` and exits non-zero when the
//! steady-state batched path fails to clear `GPM_PERF_MIN_SPEEDUP`
//! (default 5×) over the scalar path, the fresh-snapshot path falls
//! under `GPM_PERF_MIN_FRESH_SPEEDUP` (default 1.5×), the hill climb
//! evaluates no more than one candidate per search, or the span
//! profile disagrees with the wall clock, so CI catches throughput
//! regressions on the MPC hot path. Build with `--release`; debug
//! numbers are meaningless.

use gpm_governors::search::{hill_climb, EnergyEvaluator};
use gpm_harness::context;
use gpm_hw::{ConfigSpace, HwConfig};
use gpm_model::{encode_features, Dataset, RandomForest, RandomForestPredictor};
use gpm_sim::predictor::{KernelSnapshot, PowerPerfPredictor};
use gpm_sim::{ApuSimulator, PowerPerfEstimate, SimParams};
use gpm_xp::emit_artifact;
use serde::Serialize;
use std::hint::black_box;
use std::time::{Duration, Instant};

#[derive(Serialize)]
struct PerfReport {
    forest_num_trees: usize,
    candidates: usize,
    scalar_candidates_per_s: f64,
    batched_candidates_per_s: f64,
    batched_speedup: f64,
    fresh_snapshot_candidates_per_s: f64,
    fresh_snapshot_speedup: f64,
    min_speedup_gate: f64,
    min_fresh_speedup_gate: f64,
    hill_climb_ns_per_candidate: f64,
    hill_climb_evals_per_search: f64,
    fit_wall_ms_single_thread: f64,
    fit_wall_ms_auto: f64,
    fit_threads_auto: usize,
    fit_span_count: u64,
    fit_span_total_ms: f64,
    fit_span_coverage: f64,
}

/// Runs `f` until `min_elapsed` has passed (at least once), returning
/// (iterations, elapsed).
fn measure(min_elapsed: Duration, mut f: impl FnMut()) -> (u64, Duration) {
    // Warm-up: populate thread-local scratch and caches.
    f();
    let start = Instant::now();
    let mut iters = 0u64;
    loop {
        f();
        iters += 1;
        let elapsed = start.elapsed();
        if elapsed >= min_elapsed {
            return (iters, elapsed);
        }
    }
}

fn main() {
    let budget = Duration::from_millis(400);
    // Train exactly like the deployed evaluation context: the suite-wide
    // kernel corpus over the strided campaign space, with the default
    // forest hyper-parameters — both inference paths then price the same
    // forests the governors actually run.
    let sim = ApuSimulator::default();
    let kernels = context::training_kernels();
    let campaign = context::training_space(2);
    let ds = Dataset::from_campaign(&sim, &kernels, &campaign, HwConfig::FAIL_SAFE);
    let params = gpm_harness::EvalOptions::default().forest;
    let rf = RandomForestPredictor::train(&ds, &params, 7);

    let out = sim.evaluate(&kernels[0], HwConfig::FAIL_SAFE);
    let snap = KernelSnapshot::counters_only(out.counters, HwConfig::FAIL_SAFE, 1.0);
    let cfgs: Vec<HwConfig> = ConfigSpace::paper_campaign().iter().collect();

    // Seed scalar path: fresh feature vector + nested traversal per call.
    let (time_forest, power_forest) = (rf.time_forest(), rf.power_forest());
    let (scalar_iters, scalar_elapsed) = measure(budget, || {
        for &cfg in &cfgs {
            let features = encode_features(&snap.counters, cfg);
            black_box(PowerPerfEstimate {
                time_s: time_forest.predict(&features).exp().max(1e-9),
                gpu_power_w: power_forest.predict(&features).max(0.1),
            });
        }
    });

    // Batched flat path, governor steady state: repeated sweeps over one
    // snapshot, served by the specialization and per-snapshot value
    // memos after the first call.
    let mut batch_out = Vec::new();
    let (batched_iters, batched_elapsed) = measure(budget, || {
        rf.predict_batch(&snap, &cfgs, &mut batch_out);
        black_box(&batch_out);
    });

    // Batched flat path, fresh snapshot per sweep: rotating distinct
    // counter prefixes defeats both memos, so every call pays
    // specialization plus the full interleaved walks — the raw engine
    // throughput. The scalar path has no snapshot caching, so the one
    // scalar baseline serves both comparisons.
    let fresh_snaps: Vec<KernelSnapshot> = (0..8)
        .map(|i| {
            let k = &kernels[i % kernels.len()];
            let mut counters = *sim.evaluate(k, HwConfig::FAIL_SAFE).counters.values();
            counters[0] *= 1.0 + i as f64 * 0.01;
            KernelSnapshot::counters_only(
                gpm_sim::CounterSet::from_values(counters),
                HwConfig::FAIL_SAFE,
                1.0,
            )
        })
        .collect();
    let mut fresh_idx = 0usize;
    let (fresh_iters, fresh_elapsed) = measure(budget, || {
        rf.predict_batch(
            &fresh_snaps[fresh_idx % fresh_snaps.len()],
            &cfgs,
            &mut batch_out,
        );
        fresh_idx += 1;
        black_box(&batch_out);
    });

    let rows = cfgs.len() as f64;
    let scalar_rate = scalar_iters as f64 * rows / scalar_elapsed.as_secs_f64();
    let batched_rate = batched_iters as f64 * rows / batched_elapsed.as_secs_f64();
    let fresh_rate = fresh_iters as f64 * rows / fresh_elapsed.as_secs_f64();
    let speedup = batched_rate / scalar_rate;
    let fresh_speedup = fresh_rate / scalar_rate;

    // RF-backed hill climb: the governor's actual per-decision search.
    // The cap sits 10% above the *predicted* time of the fail-safe start,
    // so the start meets it and the climb really walks the knobs (a cap
    // the start misses ends the search after one estimate).
    let eval = EnergyEvaluator::new(rf.clone(), SimParams::default());
    let cap = eval.estimate(&snap, HwConfig::FAIL_SAFE).time_s * 1.1;
    // The search is deterministic, so one probe gives the exact
    // per-invocation candidate count; the timed loop then only measures.
    let (_, evals_per_search) = hill_climb(&eval, &snap, HwConfig::FAIL_SAFE, cap);
    let (climbs, climb_elapsed) = measure(budget, || {
        black_box(hill_climb(&eval, &snap, HwConfig::FAIL_SAFE, cap));
    });
    let ns_per_candidate =
        climb_elapsed.as_nanos() as f64 / (evals_per_search.max(1) * climbs) as f64;

    // Fit wall-time: sequential vs auto-parallel (bit-identical
    // results), profiled: both fits run under a telemetry registry so
    // the `rf.fit` span totals can be reconciled against these timers.
    let telemetry = gpm_telemetry::Telemetry::new();
    let xs = ds.xs();
    let ys = ds.ys_log_time();
    let (fit_seq, fit_auto) = {
        let _enter = telemetry.enter();
        let t0 = Instant::now();
        let seq = RandomForest::fit_with_threads(&xs, &ys, &params, 7, 1);
        let fit_seq = t0.elapsed();
        let t1 = Instant::now();
        let par = RandomForest::fit_with_threads(&xs, &ys, &params, 7, 0);
        let fit_auto = t1.elapsed();
        assert_eq!(seq, par, "parallel fit must be bit-identical");
        (fit_seq, fit_auto)
    };
    let threads_auto = std::thread::available_parallelism().map_or(1, usize::from);
    let fit_span = telemetry
        .snapshot()
        .span("rf.fit")
        .expect("rf.fit span recorded");
    let fit_wall_ms = (fit_seq + fit_auto).as_secs_f64() * 1e3;
    let fit_span_ms = fit_span.total_ns as f64 / 1e6;
    // The span opens first thing inside the fit and the timer wraps the
    // call, so span time is a subset of wall time; anything under 90%
    // coverage means the profiler is dropping attributable work.
    let fit_coverage = fit_span_ms / fit_wall_ms.max(1e-9);

    let gate = std::env::var("GPM_PERF_MIN_SPEEDUP")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(5.0);
    let fresh_gate = std::env::var("GPM_PERF_MIN_FRESH_SPEEDUP")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(1.5);

    let report = PerfReport {
        forest_num_trees: params.num_trees,
        candidates: cfgs.len(),
        scalar_candidates_per_s: scalar_rate,
        batched_candidates_per_s: batched_rate,
        batched_speedup: speedup,
        fresh_snapshot_candidates_per_s: fresh_rate,
        fresh_snapshot_speedup: fresh_speedup,
        min_speedup_gate: gate,
        min_fresh_speedup_gate: fresh_gate,
        hill_climb_ns_per_candidate: ns_per_candidate,
        hill_climb_evals_per_search: evals_per_search as f64,
        fit_wall_ms_single_thread: fit_seq.as_secs_f64() * 1e3,
        fit_wall_ms_auto: fit_auto.as_secs_f64() * 1e3,
        fit_threads_auto: threads_auto,
        fit_span_count: fit_span.count,
        fit_span_total_ms: fit_span_ms,
        fit_span_coverage: fit_coverage,
    };

    println!(
        "perf smoke ({} trees, {} candidates):",
        params.num_trees,
        cfgs.len()
    );
    println!("  scalar        : {:>12.0} candidates/s", scalar_rate);
    println!(
        "  batched steady: {:>12.0} candidates/s ({speedup:.1}x)",
        batched_rate
    );
    println!(
        "  batched fresh : {:>12.0} candidates/s ({fresh_speedup:.1}x)",
        fresh_rate
    );
    println!("  hill climb: {ns_per_candidate:.0} ns/candidate");
    println!(
        "  fit: {:.0} ms single-thread, {:.0} ms on {} threads",
        report.fit_wall_ms_single_thread, report.fit_wall_ms_auto, threads_auto
    );
    println!(
        "  rf.fit spans: {} covering {:.0} ms ({:.0}% of fit wall time)",
        fit_span.count,
        fit_span_ms,
        fit_coverage * 100.0
    );
    emit_artifact("results/BENCH_perf.json", &report);

    if speedup < gate {
        eprintln!("FAIL: batched speedup {speedup:.2}x below the {gate:.1}x gate");
        std::process::exit(1);
    }
    if fresh_speedup < fresh_gate {
        eprintln!(
            "FAIL: fresh-snapshot speedup {fresh_speedup:.2}x below the {fresh_gate:.1}x gate"
        );
        std::process::exit(1);
    }
    if evals_per_search <= 1 {
        eprintln!(
            "FAIL: the hill climb evaluated {evals_per_search} candidate(s) per search; \
             its ns/candidate would time a single estimate, not a climb"
        );
        std::process::exit(1);
    }
    if fit_span.count != 2 {
        eprintln!(
            "FAIL: expected 2 rf.fit spans (sequential + parallel fit), saw {}",
            fit_span.count
        );
        std::process::exit(1);
    }
    if !(0.9..=1.01).contains(&fit_coverage) {
        eprintln!(
            "FAIL: rf.fit span total {fit_span_ms:.1} ms covers {:.0}% of the \
             {fit_wall_ms:.1} ms fit wall time (expected 90-101%)",
            fit_coverage * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "PASS: batched speedup {speedup:.2}x (fresh {fresh_speedup:.2}x) clears the {gate:.1}x gate"
    );
}
