//! Fleet scaling + determinism gate.
//!
//! Runs the canonical mixed fleet scenario through [`gpm_fleet`] after
//! one untimed warm-up run: once at 2 workers, then five interleaved
//! (1-worker, auto) pairs, measuring host wall-clock throughput, and:
//!
//! * asserts the serialized fleet artifacts are **byte-identical** across
//!   every run and worker count (the gpm-fleet determinism contract);
//! * gates the median auto-worker speedup over 1 worker across the
//!   pairs at `GPM_FLEET_MIN_SCALING` (default 1.05×) and records it
//!   with its median absolute deviation. When auto resolves to one
//!   worker (a single-core host) there is no scaling to measure: the
//!   auto point is recorded as skipped (`auto_speedup_over_1: null`).
//!
//! `--soak <seconds>` first replays seeded scenarios (rotating seeds)
//! for at least that long, diffing every artifact against the first for
//! its seed — the CI fleet-soak job runs 60 s of this. Every run (soak
//! and sweep) executes under a live fleet [`gpm_telemetry`] registry
//! plus per-shard registries, and soak mode prints a periodic one-line
//! status from the running fleet rollup, the same values the Prometheus
//! page shows: jobs/s, p99 simulated decision latency, and the
//! fail-safe rate.
//!
//! `--telemetry-out PATH` writes the final Prometheus page (every run's
//! rollup merged, plus the fleet registry's worker/shard spans) and
//! exits non-zero when it fails validation.
//!
//! Emits `results/BENCH_fleet.json` either way. `GPM_BENCH_FAST=1`
//! selects the fast training context (CI default). Build with
//! `--release`; debug numbers are meaningless.

use gpm_fleet::{FleetReport, FleetRollup, FleetScenario, FleetService};
use gpm_telemetry::{validate_prometheus, Telemetry};
use gpm_xp::emit_artifact;
use gpm_xp::suite::{bench_context, fast_from_env};
use serde::Serialize;
use std::time::Instant;

/// Interleaved (1-worker, auto) pairs behind the scaling point.
const PAIRS: usize = 5;

#[derive(Serialize)]
struct WorkerPoint {
    workers: usize,
    runs: usize,
    /// Median wall time over `runs`.
    wall_s: f64,
    /// Median absolute deviation of the wall time.
    wall_mad_s: f64,
    jobs_per_s: f64,
}

#[derive(Serialize)]
struct FleetBenchReport {
    scenario: String,
    seed: u64,
    shards: usize,
    jobs: usize,
    simulated_makespan_s: f64,
    simulated_throughput_gips: f64,
    fleet_energy_j: f64,
    fail_safe_entries: u64,
    fault_injections: u64,
    deterministic: bool,
    scaling: Vec<WorkerPoint>,
    /// Median over the pairs of 1-worker wall / auto wall; `None` when
    /// auto resolves to one worker: nothing to compare.
    auto_speedup_over_1: Option<f64>,
    /// Median absolute deviation of the per-pair speedups.
    auto_speedup_mad: Option<f64>,
    min_scaling_gate: f64,
    soak_seconds: f64,
    soak_iterations: usize,
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Median and median absolute deviation of `xs` (non-empty).
fn median_mad(xs: &[f64]) -> (f64, f64) {
    fn median(xs: &mut [f64]) -> f64 {
        xs.sort_by(f64::total_cmp);
        let n = xs.len();
        if n % 2 == 1 {
            xs[n / 2]
        } else {
            (xs[n / 2 - 1] + xs[n / 2]) / 2.0
        }
    }
    let m = median(&mut xs.to_vec());
    let mut dev: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    (m, median(&mut dev))
}

/// One timed scenario run; returns (report, artifact bytes, wall).
fn timed_run(svc: &FleetService, scenario: &FleetScenario) -> (FleetReport, String, f64) {
    let start = Instant::now();
    let report = svc.run(scenario);
    let wall = start.elapsed().as_secs_f64();
    let json = report.to_artifact_json();
    (report, json, wall)
}

/// One soak status line, from the running rollup of every fleet run —
/// the values its Prometheus page shows.
fn status_line(elapsed_s: f64, totals: &FleetRollup) -> String {
    let p99 = totals
        .trace
        .decision_latency
        .quantile(0.99)
        .map_or("n/a".to_string(), |s| format!("{:.1} us", s * 1e6));
    format!(
        "soak {elapsed_s:>5.1} s | {:.1} jobs/s | p99 decision {} | fail-safe {:.2}/job | {} shards",
        totals.jobs as f64 / elapsed_s.max(1e-9),
        p99,
        totals.fail_safe_entries as f64 / totals.jobs.max(1) as f64,
        totals.shards
    )
}

/// The Prometheus page of every run so far: the merged rollups plus the
/// fleet registry's worker/shard spans.
fn fleet_page(totals: &FleetRollup, telemetry: &Telemetry) -> String {
    let mut page = totals.clone();
    page.telemetry
        .get_or_insert_with(Default::default)
        .merge(&telemetry.snapshot());
    page.to_prometheus()
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let soak_secs: Option<f64> = argv
        .iter()
        .position(|a| a == "--soak")
        .map(|i| argv.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or(60.0));
    let telemetry_out: Option<String> = argv.iter().position(|a| a == "--telemetry-out").map(|i| {
        argv.get(i + 1)
            .expect("--telemetry-out needs a path")
            .clone()
    });

    let ctx = bench_context(fast_from_env());
    let seed = 0xF1EE7u64;
    let (shards, jobs_per_shard) = if fast_from_env() { (8, 2) } else { (12, 4) };
    let scenario = FleetScenario::mixed(seed, shards, jobs_per_shard);

    // One fleet-level registry spans the whole process (soak + sweep);
    // shard-level registries are created per shard by the service. Every
    // run's rollup folds into `totals`, which the status lines and the
    // Prometheus page render from.
    let telemetry = Telemetry::new();
    let mut totals = FleetRollup::default();

    let mut soak_elapsed = 0.0;
    let mut soak_iters = 0usize;
    if let Some(budget) = soak_secs {
        // Soak mode: rotate seeds, two replays per seed, diff against the
        // first artifact for that seed.
        let svc = FleetService::new(ctx.clone()).with_telemetry(telemetry.clone());
        let start = Instant::now();
        let mut last_status = Instant::now();
        let mut round = 0u64;
        while start.elapsed().as_secs_f64() < budget {
            let s = FleetScenario::mixed(seed ^ round.wrapping_mul(0x9e37_79b9), shards, 2);
            let (first_report, first, _) = timed_run(&svc, &s);
            let (report, again, _) = timed_run(&svc, &s);
            assert_eq!(first, again, "soak artifact drifted on round {round}");
            totals.merge(&first_report.rollup);
            totals.merge(&report.rollup);
            round += 1;
            soak_iters += 2;
            if last_status.elapsed().as_secs_f64() >= 5.0 {
                println!("  {}", status_line(start.elapsed().as_secs_f64(), &totals));
                last_status = Instant::now();
            }
        }
        soak_elapsed = start.elapsed().as_secs_f64();
        println!("  {}", status_line(soak_elapsed, &totals));
        println!("soak: {soak_iters} runs over {soak_elapsed:.1} s, no drift");
    }

    // Scaling sweep: one untimed warm-up run (caches, allocator, first
    // thread spawns), one 2-worker run, then interleaved (1-worker,
    // auto) pairs, so slow drift on a shared host lands on both sides
    // of every pair.
    let service = |workers| {
        FleetService::new(ctx.clone())
            .with_workers(workers)
            .with_telemetry(telemetry.clone())
    };
    let (one, two, auto) = (service(1), service(2), service(0));
    let auto_workers = auto.effective_workers(scenario.shards.len());
    totals.merge(&auto.run(&scenario).rollup);
    let mut artifacts: Vec<String> = Vec::new();
    let mut walls: [Vec<f64>; 3] = Default::default();
    let mut speedups = Vec::with_capacity(PAIRS);
    let mut sweep = |svc: &FleetService, slot: usize| {
        let (report, json, wall) = timed_run(svc, &scenario);
        totals.merge(&report.rollup);
        artifacts.push(json);
        walls[slot].push(wall);
        wall
    };
    sweep(&two, 1);
    for _ in 0..PAIRS {
        let wall_one = sweep(&one, 0);
        let wall_auto = sweep(&auto, 2);
        speedups.push(wall_one / wall_auto);
    }
    let scaling: Vec<WorkerPoint> = [&one, &two, &auto]
        .iter()
        .zip(&walls)
        .map(|(svc, walls)| {
            let (wall_s, wall_mad_s) = median_mad(walls);
            let workers = svc.effective_workers(scenario.shards.len());
            let jobs_per_s = scenario.total_jobs() as f64 / wall_s;
            println!(
                "  {workers:>2} workers: {wall_s:.4} s median wall of {} (MAD {wall_mad_s:.4} s, {jobs_per_s:.1} jobs/s)",
                walls.len()
            );
            WorkerPoint {
                workers,
                runs: walls.len(),
                wall_s,
                wall_mad_s,
                jobs_per_s,
            }
        })
        .collect();

    let deterministic = artifacts.iter().all(|a| *a == artifacts[0]);
    // (median, MAD) of the per-pair speedups.
    let auto_speedup = (auto_workers >= 2).then(|| median_mad(&speedups));
    let gate = env_f64("GPM_FLEET_MIN_SCALING", 1.05);

    let report: FleetReport =
        serde_json::from_str(artifacts.last().expect("sweep runs")).expect("fleet artifact parses");
    let bench = FleetBenchReport {
        scenario: scenario.name.clone(),
        seed,
        shards: report.rollup.shards,
        jobs: report.rollup.jobs,
        simulated_makespan_s: report.rollup.makespan_s,
        simulated_throughput_gips: report.rollup.throughput_gips,
        fleet_energy_j: report.rollup.energy_j,
        fail_safe_entries: report.rollup.fail_safe_entries,
        fault_injections: report.rollup.fault_injections,
        deterministic,
        scaling,
        auto_speedup_over_1: auto_speedup.map(|(median, _)| median),
        auto_speedup_mad: auto_speedup.map(|(_, mad)| mad),
        min_scaling_gate: gate,
        soak_seconds: soak_elapsed,
        soak_iterations: soak_iters,
    };
    emit_artifact("results/BENCH_fleet.json", &bench);

    let mut ok = true;
    if let Some(path) = &telemetry_out {
        let text = fleet_page(&totals, &telemetry);
        if let Some(parent) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(parent).expect("create telemetry output directory");
        }
        std::fs::write(path, &text).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
        if let Err(e) = validate_prometheus(&text) {
            eprintln!("FAIL: {path} is not a valid Prometheus page: {e}");
            ok = false;
        }
    }
    if !deterministic {
        eprintln!("FAIL: fleet artifacts differ across worker counts");
        ok = false;
    }
    match auto_speedup {
        Some((speedup, _)) if speedup < gate => {
            eprintln!(
                "FAIL: median auto-worker speedup {speedup:.2}x over {PAIRS} pairs below the {gate:.2}x scaling gate"
            );
            ok = false;
        }
        Some((speedup, mad)) => println!(
            "auto speedup {speedup:.2}x median of {PAIRS} pairs, MAD {mad:.2}x (gate {gate:.2}x, {auto_workers} workers)"
        ),
        None => println!("auto resolves to 1 worker: scaling point skipped"),
    }
    if !ok {
        std::process::exit(1);
    }
    println!("PASS: byte-identical at 1/2/auto workers");
}
